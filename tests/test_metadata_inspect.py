"""Tree introspection: dumps and sharing statistics."""

import pytest

from repro.metadata.inspect import TreeInspector
from repro.version.manager import LATEST
from tests.conftest import SMALL_PAGE, SMALL_TOTAL, pages

NPAGES = SMALL_TOTAL // SMALL_PAGE


class TestDump:
    def test_version_zero(self, client, blob):
        dump = TreeInspector(client).dump(blob, 0)
        assert "all-zero" in dump

    def test_single_write_dump(self, client, blob, small_geom):
        client.write(blob, pages(1, b"d"), 0)
        dump = TreeInspector(client).dump(blob, 1)
        assert f"{blob} v1" in dump
        assert "page@providers" in dump
        assert "(zeros)" in dump
        # one line per path node + zero markers; root is first entry
        assert dump.splitlines()[1].startswith("[0, +4 MB)")

    def test_shared_annotations(self, client, blob):
        client.write(blob, pages(2, b"a"), 0)  # v1
        client.write(blob, pages(1, b"b"), 0)  # v2 shares v1's page 1
        dump = TreeInspector(client).dump(blob, 2)
        assert "<- v1" in dump  # weaving link rendered

    def test_max_depth_bounds_output(self, client, blob, small_geom):
        client.write(blob, pages(4, b"x"), 0)
        full = TreeInspector(client).dump(blob, 1)
        shallow = TreeInspector(client).dump(blob, 1, max_depth=2)
        assert len(shallow.splitlines()) < len(full.splitlines())


class TestSharingStats:
    def test_first_write_owns_everything(self, client, blob, small_geom):
        client.write(blob, pages(1, b"a"), 0)
        stats = TreeInspector(client).sharing_stats(blob, 1)
        assert stats.total_nodes == small_geom.depth + 1
        assert stats.own_nodes == stats.total_nodes
        assert stats.sharing_ratio == 0.0

    def test_small_patch_mostly_shared(self, client, blob, small_geom):
        client.write(blob, pages(NPAGES, b"f"), 0)  # full tree
        client.write(blob, pages(1, b"p"), 0)  # one path
        stats = TreeInspector(client).sharing_stats(blob, 2)
        full_tree = 2 * NPAGES - 1
        assert stats.total_nodes == full_tree
        assert stats.own_nodes == small_geom.depth + 1
        assert stats.sharing_ratio > 0.95

    def test_reachable_nodes_counts_shared_once(self, client, blob):
        client.write(blob, pages(2, b"a"), 0)
        client.write(blob, pages(2, b"b"), 4 * SMALL_PAGE)
        inspector = TreeInspector(client)
        assert inspector.reachable_nodes(blob, 2) > inspector.reachable_nodes(
            blob, 1
        )

    def test_stats_match_paper_economy_claim(self, client, blob, small_geom):
        """Across k successive single-page writes, total metadata grows by
        one path per write — not one tree per write."""
        client.write(blob, pages(NPAGES, b"0"), 0)
        inspector = TreeInspector(client)
        for k in range(2, 6):
            client.write(blob, pages(1, bytes([k])), (k % NPAGES) * SMALL_PAGE)
            stats = inspector.sharing_stats(blob, k)
            assert stats.own_nodes == small_geom.depth + 1


class TestLatest:
    def test_latest_reads_the_newest_snapshot(self, client, blob):
        inspector = TreeInspector(client)
        assert "all-zero" in inspector.dump(blob, LATEST)
        client.write(blob, pages(2, b"a"), 0)
        client.write(blob, pages(1, b"b"), 0)
        assert inspector.sharing_stats(blob, LATEST) == inspector.sharing_stats(blob, 2)
        assert inspector.dump(blob, LATEST) == inspector.dump(blob, 2)
        assert inspector.dump(blob, LATEST, max_depth=1) == inspector.dump(
            blob, 2, max_depth=1
        )
