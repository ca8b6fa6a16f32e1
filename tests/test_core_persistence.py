"""Spill-to-disk page backend."""

import pytest

from repro.core.config import DeploymentSpec
from repro.core.persistence import DiskSpill
from repro.deploy.inproc import build_inproc
from repro.errors import PageCorrupt, PageMissing
from repro.providers.data_provider import DataProvider
from repro.providers.page import PageKey, PagePayload
from repro.util.sizes import KB
from tests.conftest import SMALL_PAGE, SMALL_TOTAL, pages


class TestDiskSpill:
    def test_store_load_roundtrip(self, tmp_path):
        spill = DiskSpill(tmp_path)
        key = PageKey("b", "w", 0)
        spill.store(key, PagePayload.real(b"hello"))
        assert spill.load(key).as_bytes() == b"hello"
        assert spill.stores == 1 and spill.loads == 1

    def test_load_missing_returns_none(self, tmp_path):
        assert DiskSpill(tmp_path).load(PageKey("b", "w", 9)) is None

    def test_drop(self, tmp_path):
        spill = DiskSpill(tmp_path)
        key = PageKey("b", "w", 0)
        spill.store(key, PagePayload.real(b"x"))
        spill.drop(key)
        assert spill.load(key) is None
        spill.drop(key)  # idempotent

    def test_virtual_pages_persist_as_zeros(self, tmp_path):
        spill = DiskSpill(tmp_path)
        key = PageKey("b", "w", 1)
        spill.store(key, PagePayload.virtual(16))
        assert spill.load(key).as_bytes() == bytes(16)

    def test_file_fanout(self, tmp_path):
        spill = DiskSpill(tmp_path)
        for i in range(20):
            spill.store(PageKey("b", "w", i), PagePayload.real(b"z"))
        assert spill.page_files() == 20

    def test_memoryview_payload_spills_without_materializing(self, tmp_path):
        """Zero-copy spill: a view payload is written straight from the
        writer's buffer — file contents are exact and the payload object
        still holds the original (unmaterialized) view afterwards."""
        spill = DiskSpill(tmp_path)
        source = bytes(range(256)) * 16  # 4 KB
        view = memoryview(source)[1024:2048]
        payload = PagePayload.real(view)
        key = PageKey("b", "w", 3)
        spill.store(key, payload)
        assert payload.data is view  # store() did not touch the payload
        assert spill.load(key).as_bytes() == source[1024:2048]
        assert spill.bytes_spilled == 1024

    def test_bytes_spilled_counts_virtual_payloads_too(self, tmp_path):
        spill = DiskSpill(tmp_path)
        spill.store(PageKey("b", "w", 0), PagePayload.virtual(64))
        spill.store(PageKey("b", "w", 1), PagePayload.real(b"abcd"))
        assert spill.bytes_spilled == 68


class TestProviderWithSpill:
    def test_writes_flow_through(self, tmp_path):
        spill = DiskSpill(tmp_path)
        dp = DataProvider(0, spill=spill)
        dp.put_page(PageKey("b", "w", 0), PagePayload.real(b"data"))
        assert spill.page_files() == 1

    def test_read_falls_back_to_disk_after_eviction(self, tmp_path):
        spill = DiskSpill(tmp_path)
        dp = DataProvider(0, spill=spill)
        key = PageKey("b", "w", 0)
        dp.put_page(key, PagePayload.real(b"persisted"))
        evicted = dp.evict_to_spill()
        assert evicted == 1
        assert dp.page_count == 0
        assert dp.get_page(key).as_bytes() == b"persisted"

    def test_eviction_without_spill_is_noop(self):
        dp = DataProvider(0)
        dp.put_page(PageKey("b", "w", 0), PagePayload.real(b"x"))
        assert dp.evict_to_spill() == 0
        assert dp.page_count == 1

    def test_free_pages_also_drops_disk(self, tmp_path):
        spill = DiskSpill(tmp_path)
        dp = DataProvider(0, spill=spill)
        key = PageKey("b", "w", 0)
        dp.put_page(key, PagePayload.real(b"x"))
        dp.free_pages([key])
        assert spill.page_files() == 0
        with pytest.raises(PageMissing):
            dp.get_page(key)


class TestDeploymentWithSpill:
    def test_blob_survives_ram_eviction(self, tmp_path):
        """End-to-end: write, evict all RAM copies, read back from disk."""
        spills = {i: DiskSpill(tmp_path / str(i)) for i in range(2)}
        dep = build_inproc(DeploymentSpec(n_data=2, n_meta=2), spills=spills)
        client = dep.client()
        blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
        client.write(blob, pages(4, b"D"), 0)
        for dp in dep.data.values():
            dp.evict_to_spill()
        assert dep.total_pages_stored() == 0
        got = client.read_bytes(blob, 0, 4 * SMALL_PAGE, version=1)
        assert got == pages(4, b"D")


def test_checksum_verifies_spill_loads(tmp_path):
    """Integrity mode must cover the persistence tier too: a page evicted
    to disk and corrupted there fails its checksum on the read-back path
    (disk is exactly where torn/misdirected writes happen)."""
    spill = DiskSpill(tmp_path)
    dp = DataProvider(0, spill=spill, checksum=True)
    key = PageKey("b", "w", 0)
    dp.put_page(key, PagePayload.real(b"a" * 64))
    dp.evict_to_spill()
    # clean round-trip first: spill load passes verification
    assert dp.get_page(key).as_bytes() == b"a" * 64
    page_file = next(tmp_path.glob("*/*.page"))
    page_file.write_bytes(b"z" * 64)  # corrupt on disk
    with pytest.raises(PageCorrupt):
        dp.get_page(key)
