"""Client-ordered garbage collection."""

import pytest

from repro.errors import NodeMissing, StaleWrite, VersionNotPublished
from repro.util.sizes import KB
from repro.version.manager import LATEST
from tests.conftest import SMALL_PAGE, pages


def setup_versions(client, blob, n=4):
    """n writes to overlapping ranges; returns expected contents per
    version of the first 2 pages."""
    contents = {}
    for v in range(1, n + 1):
        fill = bytes([v]) * 1
        client.write(blob, (bytes([v]) * SMALL_PAGE) * 2, 0)
        contents[v] = bytes([v]) * (2 * SMALL_PAGE)
    return contents


class TestGC:
    def test_keep_latest_only(self, dep, client, blob):
        contents = setup_versions(client, blob, 4)
        pages_before = dep.total_pages_stored()
        stats = client.gc(blob, [4], dep.data_ids, dep.meta_ids)
        assert stats.pages_freed == pages_before - stats.pages_live
        assert stats.pages_live == 2
        # kept version reads perfectly
        assert client.read_bytes(blob, 0, 2 * SMALL_PAGE, version=4) == contents[4]

    def test_collected_version_unreadable(self, dep, blob):
        writer = dep.client("w")
        setup_versions(writer, blob, 3)
        writer.gc(blob, [3], dep.data_ids, dep.meta_ids)
        fresh = dep.client("fresh-reader")  # no cache assistance
        with pytest.raises(NodeMissing):
            fresh.read(blob, 0, SMALL_PAGE, version=1)

    def test_gc_purges_what_it_frees_from_the_collecting_cache(self, dep, client, blob):
        """The collecting client's cache loses every node key the sweep
        frees, so its READ of a collected version is the typed
        ``NodeMissing`` a cold client gets — not a walk through cached
        nodes to freed pages (``PageMissing``) or to pages a kept
        version still shares (stale bytes)."""
        setup_versions(client, blob, 3)
        client.read(blob, 0, 2 * SMALL_PAGE, version=1)  # v1's nodes cached

        def stored():
            return {n.key for m in dep.meta.values() for n in m.iter_nodes(blob)}

        before = stored()
        client.gc(blob, [3], dep.data_ids, dep.meta_ids)
        freed = before - stored()
        assert freed and not any(key in client.cache for key in freed)
        with pytest.raises(NodeMissing):
            client.read(blob, 0, SMALL_PAGE, version=1)

    def test_keep_multiple_versions(self, dep, client, blob):
        contents = setup_versions(client, blob, 4)
        client.gc(blob, [2, 4], dep.data_ids, dep.meta_ids)
        assert client.read_bytes(blob, 0, 2 * SMALL_PAGE, version=2) == contents[2]
        assert client.read_bytes(blob, 0, 2 * SMALL_PAGE, version=4) == contents[4]

    def test_shared_subtrees_survive(self, dep, client, blob):
        """GC must keep pages of older versions still referenced through
        structural sharing."""
        client.write(blob, pages(4, b"A"), 0)  # v1: pages 0-3
        client.write(blob, pages(1, b"B"), 0)  # v2 patches page 0 only
        client.gc(blob, [2], dep.data_ids, dep.meta_ids)
        got = client.read_bytes(blob, 0, 4 * SMALL_PAGE, version=2)
        assert got == pages(1, b"B") + pages(3, b"A")

    def test_gc_refuses_unpublished_keep(self, dep, client, blob):
        client.write(blob, pages(1), 0)
        with pytest.raises(StaleWrite):
            client.gc(blob, [7], dep.data_ids, dep.meta_ids)

    def test_gc_keeps_latest_as_the_newest_version(self, dep, client, blob):
        contents = setup_versions(client, blob, 2)
        stats = client.gc(blob, [LATEST], dep.data_ids, dep.meta_ids)
        assert stats.kept_versions == (2,)
        assert stats.pages_live == 2 and stats.pages_freed == 2
        assert client.read_bytes(blob, 0, 2 * SMALL_PAGE) == contents[2]

    def test_gc_refuses_other_negative_versions_before_freeing(
        self, dep, client, blob
    ):
        contents = setup_versions(client, blob, 2)
        pages_before = dep.total_pages_stored()
        with pytest.raises(ValueError):
            client.gc(blob, [2, -2], dep.data_ids, dep.meta_ids)
        assert dep.total_pages_stored() == pages_before
        assert client.read_bytes(blob, 0, 2 * SMALL_PAGE, version=1) == contents[1]

    def test_gc_stats_consistency(self, dep, client, blob):
        setup_versions(client, blob, 3)
        nodes_before = dep.total_nodes_stored()
        pages_before = dep.total_pages_stored()
        stats = client.gc(blob, [3], dep.data_ids, dep.meta_ids)
        assert stats.kept_versions == (3,)
        assert dep.total_nodes_stored() == nodes_before - stats.nodes_freed
        assert dep.total_pages_stored() == pages_before - stats.pages_freed
        assert stats.nodes_live == dep.total_nodes_stored()

    def test_gc_idempotent(self, dep, client, blob):
        setup_versions(client, blob, 3)
        client.gc(blob, [3], dep.data_ids, dep.meta_ids)
        stats = client.gc(blob, [3], dep.data_ids, dep.meta_ids)
        assert stats.nodes_freed == 0
        assert stats.pages_freed == 0

    def test_gc_keep_nothing_empties_store(self, dep, client, blob):
        setup_versions(client, blob, 2)
        stats = client.gc(blob, [], dep.data_ids, dep.meta_ids)
        assert dep.total_pages_stored() == 0
        assert dep.total_nodes_stored() == 0
        assert stats.pages_live == 0

    def test_gc_respects_other_blobs(self, dep, client):
        blob_a = client.alloc(256 * KB, SMALL_PAGE)
        blob_b = client.alloc(256 * KB, SMALL_PAGE)
        client.write(blob_a, pages(2, b"a"), 0)
        client.write(blob_b, pages(2, b"b"), 0)
        client.gc(blob_a, [], dep.data_ids, dep.meta_ids)
        assert client.read_bytes(blob_b, 0, 4, version=1) == b"bbbb"
