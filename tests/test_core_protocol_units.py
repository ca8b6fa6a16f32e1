"""Protocol-layer unit tests: failover machinery, helpers, small protocols."""

import pytest

from repro.core.protocol import (
    alloc_protocol,
    fresh_write_uid,
    split_pages,
    stat_protocol,
    virtual_pages,
)
from repro.errors import PageMissing, RemoteError
from repro.net.sansio import (
    Batch,
    Call,
    gather_with_failover,
    run_inproc,
    run_protocol,
)
from repro.util.sizes import KB
from tests.conftest import SMALL_PAGE, SMALL_TOTAL, pages


class FlakyStore:
    """Actor that fails for configured keys until a given attempt count."""

    def __init__(self, fail_keys=(), permanent=()):
        self.fail_keys = set(fail_keys)
        self.permanent = set(permanent)
        self.calls = []

    def handle(self, method, args):
        key = args[0]
        self.calls.append((method, key))
        if key in self.permanent:
            raise PageMissing(f"gone forever: {key}")
        if key in self.fail_keys:
            self.fail_keys.discard(key)
            raise PageMissing(f"transient: {key}")
        return f"value-{key}"


class TestGatherWithFailover:
    def drive(self, items, registry, routes):
        def routes_for(item):
            return routes[item]

        def call_for(item, owner, last):
            return Call(owner, "get", (item,), allow_error=not last)

        def proto():
            out = yield from gather_with_failover(items, routes_for, call_for)
            return out

        return run_inproc(proto(), registry)

    def test_empty_items(self):
        assert self.drive([], {}, {}) == []

    def test_all_primary_success(self):
        store = FlakyStore()
        routes = {"a": ("s0",), "b": ("s0",)}
        got = self.drive(["a", "b"], {"s0": store}, routes)
        assert got == ["value-a", "value-b"]

    def test_one_route_fetch_is_one_batch_returning_its_results(self):
        """No slot failed: one batch, and its result list comes back as is."""
        batches, delivered = [], []

        def execute(batch):
            batches.append(batch)
            results = [f"value-{call.args[0]}" for call in batch.calls]
            delivered.append(results)
            return results

        def proto():
            return (yield from gather_with_failover(
                ["a", "b"],
                lambda item: ("s0",),
                lambda item, owner, last: Call(owner, "get", (item,), allow_error=not last),
            ))

        got = run_protocol(proto(), execute)
        assert got == ["value-a", "value-b"]
        assert got is delivered[0]
        assert [call.allow_error for call in batches[0].calls] == [False, False]
        assert len(batches) == 1

    def test_failover_to_second_replica(self):
        primary = FlakyStore(permanent={"a"})
        backup = FlakyStore()
        routes = {"a": ("p", "b")}
        got = self.drive(["a"], {"p": primary, "b": backup}, routes)
        assert got == ["value-a"]
        assert ("get", "a") in backup.calls

    def test_partial_failover_only_retries_failures(self):
        primary = FlakyStore(permanent={"b"})
        backup = FlakyStore()
        routes = {"a": ("p", "b2"), "b": ("p", "b2")}
        got = self.drive(["a", "b"], {"p": primary, "b2": backup}, routes)
        assert got == ["value-a", "value-b"]
        assert backup.calls == [("get", "b")]  # 'a' never retried

    def test_exhausted_replicas_raise_typed(self):
        primary = FlakyStore(permanent={"a"})
        backup = FlakyStore(permanent={"a"})
        routes = {"a": ("p", "b")}
        with pytest.raises(PageMissing):
            self.drive(["a"], {"p": primary, "b": backup}, routes)

    def test_single_replica_raises_immediately(self):
        primary = FlakyStore(permanent={"a"})
        with pytest.raises(PageMissing):
            self.drive(["a"], {"p": primary}, {"a": ("p",)})


class TestSmallProtocols:
    def test_alloc_and_stat(self, dep):
        blob = dep.driver.run(alloc_protocol(SMALL_TOTAL, SMALL_PAGE))
        total, page, latest = dep.driver.run(stat_protocol(blob))
        assert (total, page, latest) == (SMALL_TOTAL, SMALL_PAGE, 0)


class TestPayloadHelpers:
    def test_split_pages(self):
        payloads = split_pages(pages(3, b"x"), SMALL_PAGE)
        assert len(payloads) == 3
        assert all(p.nbytes == SMALL_PAGE and not p.is_virtual for p in payloads)

    def test_split_pages_rejects_ragged(self):
        with pytest.raises(ValueError):
            split_pages(b"abc", SMALL_PAGE)

    def test_virtual_pages(self):
        payloads = virtual_pages(4 * SMALL_PAGE, SMALL_PAGE)
        assert len(payloads) == 4
        assert all(p.is_virtual for p in payloads)
        with pytest.raises(ValueError):
            virtual_pages(SMALL_PAGE + 1, SMALL_PAGE)

    def test_fresh_write_uid_unique(self):
        uids = {fresh_write_uid("c") for _ in range(100)}
        assert len(uids) == 100
        assert all(uid.startswith("c#") for uid in uids)


class TestGCWithReplication:
    def test_gc_respects_replicated_stores(self):
        from repro.core.config import DeploymentSpec
        from repro.deploy.inproc import build_inproc

        dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, replication=2))
        client = dep.client()
        blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
        for v in range(3):
            client.write(blob, pages(2, bytes([v + 1])), 0)
        stats = client.gc(blob, [3], dep.data_ids, dep.meta_ids)
        # live pages counted once, but every replica of dead pages freed
        assert stats.pages_live == 2
        assert stats.pages_freed == 2 * 2 * 2  # 2 dead versions x 2 pages x r=2
        assert dep.total_pages_stored() == 2 * 2  # live pages x 2 replicas
        # the kept version still reads with a crashed replica
        dep.driver.fail(("data", 0))
        got = client.read_bytes(blob, 0, 2 * SMALL_PAGE, version=3)
        assert got == pages(2, bytes([3]))
