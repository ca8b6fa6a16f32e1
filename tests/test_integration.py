"""Cross-module integration scenarios."""

import numpy as np

from repro.util.rng import substream
from repro.util.sizes import KB, MB
from tests.conftest import SMALL_PAGE, SMALL_TOTAL, pages


class TestMultiBlob:
    def test_independent_version_spaces(self, dep, client):
        a = client.alloc(SMALL_TOTAL, SMALL_PAGE)
        b = client.alloc(SMALL_TOTAL, SMALL_PAGE)
        client.write(a, pages(1, b"a"), 0)
        client.write(a, pages(1, b"A"), 0)
        client.write(b, pages(1, b"b"), 0)
        assert client.latest(a) == 2
        assert client.latest(b) == 1
        assert client.read_bytes(a, 0, 4, version=2) == b"AAAA"
        assert client.read_bytes(b, 0, 4, version=1) == b"bbbb"

    def test_different_geometries_coexist(self, dep, client):
        small = client.alloc(256 * KB, 4 * KB)
        large = client.alloc(4 * MB, 16 * KB)
        client.write(small, b"s" * 8 * KB, 0)
        client.write(large, b"L" * 32 * KB, 0)
        assert client.read_bytes(small, 0, 3) == b"sss"
        assert client.read_bytes(large, 16 * KB, 3) == b"LLL"


class TestManyClientsOneDriver:
    def test_clients_have_private_caches(self, dep, blob):
        w = dep.client("writer")
        w.write(blob, pages(2, b"p"), 0)
        r1, r2 = dep.client("r1"), dep.client("r2")
        r1.read(blob, 0, SMALL_PAGE)
        assert len(r1.cache) > 0
        assert len(r2.cache) == 0

    def test_write_uids_never_collide(self, dep, blob):
        clients = [dep.client(f"c{i}") for i in range(4)]
        for c in clients:
            for _ in range(3):
                c.write(blob, pages(1, b"u"), 0)
        # 12 writes → 12 distinct pages stored (write-once never violated)
        assert dep.total_pages_stored() == 12


class TestFullLifecycle:
    def test_write_read_gc_rewrite_cycle(self, dep, client, blob):
        rng = substream(1, "lifecycle")
        reference = {}
        for v in range(1, 6):
            data = rng.integers(0, 256, size=2 * SMALL_PAGE, dtype=np.uint8).tobytes()
            client.write(blob, data, 0)
            reference[v] = data
        client.gc(blob, [3, 5], dep.data_ids, dep.meta_ids)
        assert client.read_bytes(blob, 0, 2 * SMALL_PAGE, version=3) == reference[3]
        assert client.read_bytes(blob, 0, 2 * SMALL_PAGE, version=5) == reference[5]
        # the system keeps working after GC
        data = rng.integers(0, 256, size=SMALL_PAGE, dtype=np.uint8).tobytes()
        res = client.write(blob, data, SMALL_PAGE)
        assert res.version == 6
        assert client.read_bytes(blob, SMALL_PAGE, SMALL_PAGE) == data


class TestScaleGeometry:
    def test_terabyte_blob_sparse_access(self, dep):
        """The paper's headline geometry: 1 TB logical size costs nothing
        until written; a single write materializes one path + pages."""
        from repro.util.sizes import GB, TB

        client = dep.client()
        blob = client.alloc(1 * TB, 64 * KB)
        geom = client.geometry(blob)
        assert geom.depth == 24
        res = client.write(blob, b"t" * 128 * KB, 512 * GB)
        assert res.pages_written == 2
        # one node per level 0..23 plus the two leaves of the aligned patch
        assert res.nodes_written == 26
        got = client.read_bytes(blob, 512 * GB, 10, version=1)
        assert got == b"t" * 10
        # reading an untouched region is pure zero-fill
        far = client.read(blob, 0, 64 * KB, version=1)
        assert far.pages_fetched == 0
        assert far.zero_bytes == 64 * KB
