"""The paper's §II contract, end-to-end through the in-process deployment.

These are the semantic acceptance tests: WRITE creates successive
snapshots, READ(v) sees exactly the prefix of patches up to v, version 0
is the all-zero string, and snapshots share structure.
"""

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.errors import OutOfBounds, VersionNotPublished
from repro.util.sizes import KB, MB
from tests.conftest import SMALL_PAGE, SMALL_TOTAL, pages


class TestWriteSemantics:
    def test_versions_start_at_one_and_increment(self, client, blob):
        r1 = client.write(blob, pages(1, b"a"), 0)
        r2 = client.write(blob, pages(1, b"b"), 0)
        assert (r1.version, r2.version) == (1, 2)
        assert r1.published and r2.published

    def test_write_returns_node_page_counts(self, client, blob, small_geom):
        r = client.write(blob, pages(4, b"a"), 0)
        assert r.pages_written == 4
        assert r.nodes_written == small_geom.count_visit_nodes(
            __import__("repro.util.intervals", fromlist=["Interval"]).Interval(0, 4 * SMALL_PAGE)
        )

    def test_unaligned_write_rejected(self, client, blob):
        with pytest.raises(OutOfBounds):
            client.write(blob, pages(1), 100)
        with pytest.raises(ValueError):
            client.write(blob, b"abc", 0)

    def test_write_past_end_rejected(self, client, blob):
        with pytest.raises(OutOfBounds):
            client.write(blob, pages(2), SMALL_TOTAL - SMALL_PAGE)


class TestReadSemantics:
    def test_version_zero_is_all_zeros(self, client, blob):
        assert client.read_bytes(blob, 0, 64, version=0) == bytes(64)
        assert client.read_bytes(blob, SMALL_TOTAL - 10, 10, version=0) == bytes(10)

    def test_read_reflects_prefix_of_patches(self, client, blob):
        client.write(blob, pages(1, b"a"), 0)  # v1
        client.write(blob, pages(1, b"b"), 0)  # v2
        client.write(blob, pages(1, b"c"), SMALL_PAGE)  # v3
        assert client.read_bytes(blob, 0, 4, version=1) == b"aaaa"
        assert client.read_bytes(blob, 0, 4, version=2) == b"bbbb"
        assert client.read_bytes(blob, SMALL_PAGE, 4, version=2) == bytes(4)
        assert client.read_bytes(blob, SMALL_PAGE, 4, version=3) == b"cccc"

    def test_read_default_is_latest(self, client, blob):
        client.write(blob, pages(1, b"a"), 0)
        client.write(blob, pages(1, b"b"), 0)
        res = client.read(blob, 0, 4)
        assert res.data == b"bbbb"
        assert res.version == 2 and res.latest == 2

    def test_read_unpublished_fails(self, client, blob):
        client.write(blob, pages(1), 0)
        with pytest.raises(VersionNotPublished):
            client.read(blob, 0, 4, version=5)

    def test_read_sub_page_and_straddling(self, client, blob):
        client.write(blob, pages(2, b"ab"), 0)
        # interior of a page
        got = client.read_bytes(blob, 100, 6, version=1)
        assert got == (b"ab" * 3)[:6]
        # straddling the page boundary
        got = client.read_bytes(blob, SMALL_PAGE - 2, 4, version=1)
        assert len(got) == 4

    def test_read_mixes_zero_and_written_regions(self, client, blob):
        client.write(blob, pages(1, b"x"), 2 * SMALL_PAGE)
        res = client.read(blob, SMALL_PAGE, 3 * SMALL_PAGE, version=1)
        assert res.data[:SMALL_PAGE] == bytes(SMALL_PAGE)
        assert res.data[SMALL_PAGE : 2 * SMALL_PAGE] == pages(1, b"x")
        assert res.data[2 * SMALL_PAGE :] == bytes(SMALL_PAGE)
        assert res.zero_bytes == 2 * SMALL_PAGE

    def test_all_reads_of_same_version_identical(self, client, blob):
        """Paper §II: all non-failing READs of (v, offset, size) yield the
        same substring, regardless of later writes."""
        client.write(blob, pages(4, b"1"), 0)
        before = client.read_bytes(blob, 0, 4 * SMALL_PAGE, version=1)
        for fill in (b"2", b"3", b"4"):
            client.write(blob, pages(4, fill), 0)
        after = client.read_bytes(blob, 0, 4 * SMALL_PAGE, version=1)
        assert before == after

    def test_out_of_bounds_read(self, client, blob):
        with pytest.raises(OutOfBounds):
            client.read(blob, SMALL_TOTAL, 1)
        with pytest.raises(OutOfBounds):
            client.read(blob, 0, 0)

    def test_vr_reports_latest(self, client, blob):
        client.write(blob, pages(1), 0)
        client.write(blob, pages(1), 0)
        res = client.read(blob, 0, 8, version=1)
        assert res.latest == 2  # vr >= v


class TestStructuralSharing:
    def test_unpatched_subtrees_shared(self, dep, client, blob, small_geom):
        """A second small write adds only one root-to-leaf path of nodes."""
        client.write(blob, pages(small_geom.page_count, b"z"), 0)  # full
        base_nodes = dep.total_nodes_stored()
        client.write(blob, pages(1, b"y"), 0)
        added = dep.total_nodes_stored() - base_nodes
        assert added == small_geom.depth + 1

    def test_pages_never_rewritten(self, dep, client, blob):
        client.write(blob, pages(2, b"a"), 0)
        stored = dep.total_pages_stored()
        client.write(blob, pages(2, b"b"), 0)
        assert dep.total_pages_stored() == stored + 2  # fresh pages only

    def test_page_dispersal_across_providers(self, dep, client, blob):
        client.write(blob, pages(4, b"a"), 0)
        counts = [p.page_count for p in dep.data.values()]
        assert counts == [1, 1, 1, 1]  # round robin over 4 providers


class TestUnalignedWriteExtension:
    def test_small_write_inside_page(self, client, blob):
        client.write(blob, pages(2, b"a"), 0)
        client.write_unaligned(blob, b"XYZ", 10)
        got = client.read_bytes(blob, 0, 20)
        assert got == pages(1, b"a")[:10] + b"XYZ" + pages(1, b"a")[13:20]

    def test_straddling_write(self, client, blob):
        client.write(blob, pages(2, b"a"), 0)
        client.write_unaligned(blob, b"Z" * 8, SMALL_PAGE - 4)
        got = client.read_bytes(blob, SMALL_PAGE - 5, 10)
        assert got == b"a" + b"Z" * 8 + b"a"

    def test_against_pinned_base_version(self, client, blob):
        client.write(blob, pages(1, b"a"), 0)  # v1
        client.write(blob, pages(1, b"b"), 0)  # v2
        client.write_unaligned(blob, b"!!", 0, base_version=1)  # v3
        got = client.read_bytes(blob, 0, 6)
        assert got == b"!!aaaa"  # boundary bytes from v1, not v2

    def test_empty_rejected(self, client, blob):
        with pytest.raises(ValueError):
            client.write_unaligned(blob, b"", 0)


class TestClientFacade:
    def test_open_learns_geometry(self, dep, blob):
        other = dep.client("second")
        geom = other.open(blob)
        assert geom.total_size == SMALL_TOTAL
        assert geom.pagesize == SMALL_PAGE

    def test_latest(self, client, blob):
        assert client.latest(blob) == 0
        client.write(blob, pages(1), 0)
        assert client.latest(blob) == 1

    def test_cache_effectiveness_on_reread(self, dep, blob):
        # the writer's own cache already holds what it wrote: read cold
        dep.client("writer").write(blob, pages(4, b"m"), 0)
        c = dep.client("cached-reader")
        first = c.read(blob, 0, 4 * SMALL_PAGE)
        again = c.read(blob, 0, 4 * SMALL_PAGE)
        assert first.nodes_fetched > 0
        assert again.nodes_fetched == 0  # fully served from cache
        assert again.cache_hits == first.nodes_fetched + first.cache_hits
        assert again.data == first.data

    def test_cacheless_client(self):
        dep = build_inproc(DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0))
        c = dep.client("nocache")
        blob = c.alloc(SMALL_TOTAL, SMALL_PAGE)
        c.write(blob, pages(1), 0)
        r1 = c.read(blob, 0, 8)
        r2 = c.read(blob, 0, 8)
        assert r1.cache_hits == r2.cache_hits == 0
        assert r2.nodes_fetched == r1.nodes_fetched > 0
