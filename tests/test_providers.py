"""Data plane: pages, providers, manager, strategies."""

import pytest

from repro.errors import (
    ImmutabilityViolation,
    NotEnoughProviders,
    PageCorrupt,
    PageMissing,
)
from repro.net.message import estimate_size
from repro.providers.data_provider import DataProvider
from repro.providers.manager import ProviderManager
from repro.providers.page import PageKey, PagePayload, page_key_for


class TestPagePayload:
    def test_real_payload(self):
        p = PagePayload.real(b"abcd")
        assert p.nbytes == 4
        assert not p.is_virtual
        assert p.as_bytes() == b"abcd"

    def test_virtual_payload(self):
        p = PagePayload.virtual(8)
        assert p.is_virtual
        assert p.as_bytes() == bytes(8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PagePayload(nbytes=3, data=b"abcd")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PagePayload.virtual(-1)

    def test_wire_size_counts_payload(self):
        assert estimate_size(PagePayload.virtual(4096)) == 48 + 4096
        assert estimate_size(PagePayload.real(b"ab")) == 48 + 2

    def test_page_key_validation(self):
        assert page_key_for("b", "w", 3) == PageKey("b", "w", 3)
        with pytest.raises(ValueError):
            page_key_for("b", "w", -1)


class TestDataProvider:
    def key(self, i=0):
        return PageKey("blob", "w1", i)

    def test_put_get(self):
        dp = DataProvider(0)
        dp.put_page(self.key(), PagePayload.real(b"data"))
        assert dp.get_page(self.key()).as_bytes() == b"data"
        assert dp.bytes_stored == 4
        assert dp.page_count == 1

    def test_write_once(self):
        dp = DataProvider(0)
        dp.put_page(self.key(), PagePayload.virtual(8))
        with pytest.raises(ImmutabilityViolation):
            dp.put_page(self.key(), PagePayload.virtual(8))

    def test_missing_page(self):
        with pytest.raises(PageMissing):
            DataProvider(0).get_page(self.key())

    def test_free_pages_updates_accounting(self):
        dp = DataProvider(0)
        for i in range(3):
            dp.put_page(self.key(i), PagePayload.virtual(100))
        freed = dp.free_pages([self.key(0), self.key(1), self.key(99)])
        assert freed == 2
        assert dp.page_count == 1
        assert dp.bytes_stored == 100

    def test_list_pages_filters_by_blob(self):
        dp = DataProvider(0)
        dp.put_page(PageKey("a", "w", 0), PagePayload.virtual(1))
        dp.put_page(PageKey("b", "w", 0), PagePayload.virtual(1))
        assert dp.list_pages("a") == [PageKey("a", "w", 0)]

    def test_stats_and_dispatch(self):
        dp = DataProvider(3)
        dp.handle("data.put_page", (self.key(), PagePayload.virtual(64)))
        stats = dp.handle("data.stats", ())
        assert stats == {
            "provider_id": 3, "pages": 1, "bytes": 64, "puts": 1, "gets": 0,
        }
        for method in ("data.nope", "data.crash", "data.iter_pages"):
            with pytest.raises(ValueError, match="data provider: unknown method"):
                dp.handle(method, ())
        # still up, page still held
        assert dp.handle("data.get_page", (self.key(),)).nbytes == 64


class TestStrategies:
    @staticmethod
    def pm(n):
        pm = ProviderManager()
        for i in range(n):
            pm.register(i)
        return pm

    def test_round_robin_cycles(self):
        pm = self.pm(3)
        assert pm.get_providers("b", "u", 0, 5) == [(0,), (1,), (2,), (0,), (1,)]
        assert pm.get_providers("b", "u", 0, 2) == [(2,), (0,)]
        assert self.pm(3).get_providers("b", "u", 0, 1) == [(0,)]

    def test_round_robin_distinct_when_enough(self):
        got = self.pm(8).get_providers("b", "u", 0, 4)
        assert len(set(got)) == 4


class TestProviderManager:
    def test_register_deregister(self):
        pm = ProviderManager()
        assert pm.register(0) == 1
        assert pm.register(1) == 2
        assert pm.deregister(0) == 1
        assert pm.providers() == [1]

    def test_allocation_one_group_per_page(self):
        pm = ProviderManager()
        for i in range(4):
            pm.register(i)
        groups = pm.get_providers("b", "u", 0, 6)
        assert len(groups) == 6
        assert all(len(g) == 1 for g in groups)

    def test_replication_groups_distinct(self):
        pm = ProviderManager(replication=3)
        for i in range(5):
            pm.register(i)
        groups = pm.get_providers("b", "u", 0, 4)
        for g in groups:
            assert len(g) == 3
            assert len(set(g)) == 3

    def test_not_enough_providers(self):
        pm = ProviderManager(replication=2)
        pm.register(0)
        with pytest.raises(NotEnoughProviders):
            pm.get_providers("b", "u", 0, 1)

    def test_invalid_npages(self):
        pm = ProviderManager()
        pm.register(0)
        with pytest.raises(ValueError):
            pm.get_providers("b", "u", 0, 0)

    def test_dispatch(self):
        pm = ProviderManager()
        assert pm.handle("pm.register", (7,)) == 1
        assert pm.handle("pm.providers", ()) == [7]
        groups = pm.handle("pm.get_providers", ("b", "u", 0, 2))
        assert len(groups) == 2
        for method in ("pm.nope", "pm.load_view"):
            with pytest.raises(ValueError, match="provider manager: unknown method"):
                pm.handle(method, ())
        assert pm.handle("pm.providers", ()) == [7]


def test_checksum_detects_corruption_inproc():
    """The verify side of integrity mode, pinned where we can reach inside
    the store: a flipped byte must surface as PageCorrupt."""
    dp = DataProvider(0, checksum=True)
    key = PageKey("b", "w", 0)
    dp.put_page(key, PagePayload.real(b"a" * 64))
    dp._pages[key] = PagePayload.real(b"a" * 63 + b"b")  # corrupt in place
    with pytest.raises(PageCorrupt):
        dp.get_page(key)
