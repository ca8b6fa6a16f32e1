"""Version manager: assignment, in-order publication, read resolution."""

import pytest

from repro.errors import BlobNotFound, StaleWrite, VersionNotPublished
from repro.util.intervals import Interval
from repro.util.sizes import KB, MB
from repro.version.manager import LATEST, VersionManager

TOTAL, PAGE = 1 * MB, 4 * KB


def vm_with_blob():
    vm = VersionManager()
    return vm, vm.alloc(TOTAL, PAGE)


class TestAlloc:
    def test_ids_unique_and_stable(self):
        vm = VersionManager()
        a, b = vm.alloc(TOTAL, PAGE), vm.alloc(TOTAL, PAGE)
        assert a != b
        assert vm.blob_ids() == sorted([a, b])

    def test_stat(self):
        vm, blob = vm_with_blob()
        assert vm.stat(blob) == (TOTAL, PAGE, 0)

    def test_unknown_blob(self):
        vm = VersionManager()
        with pytest.raises(BlobNotFound):
            vm.stat("nope")
        with pytest.raises(BlobNotFound):
            vm.assign("nope", 0, PAGE)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(Exception):
            VersionManager().alloc(3 * MB, PAGE)


class TestAssign:
    def test_versions_are_successive_from_one(self):
        vm, blob = vm_with_blob()
        t1 = vm.assign(blob, 0, PAGE)
        t2 = vm.assign(blob, PAGE, PAGE)
        assert (t1.version, t2.version) == (1, 2)

    def test_ticket_refs_cover_borders(self):
        vm, blob = vm_with_blob()
        t = vm.assign(blob, 0, PAGE)
        refs = t.refs_as_dict()
        # first write: every border reference is version 0
        assert set(refs.values()) == {0}
        assert (PAGE, PAGE) in refs

    def test_refs_reference_in_flight_writer(self):
        """Writer isolation (paper §IV.C): v2's refs point at v1 even
        though v1 has not completed."""
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)  # v1, in flight
        t2 = vm.assign(blob, PAGE, PAGE)
        assert t2.refs_as_dict()[(0, PAGE)] == 1

    def test_unaligned_patch_rejected(self):
        vm, blob = vm_with_blob()
        with pytest.raises(Exception):
            vm.assign(blob, 7, PAGE)

    def test_patch_of(self):
        vm, blob = vm_with_blob()
        vm.assign(blob, PAGE, 2 * PAGE)
        assert vm.patch_of(blob, 1) == Interval(PAGE, 2 * PAGE)
        with pytest.raises(StaleWrite):
            vm.patch_of(blob, 9)


class TestPublication:
    def test_in_order_completion(self):
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)
        vm.assign(blob, PAGE, PAGE)
        assert vm.complete(blob, 1) == 1
        assert vm.complete(blob, 2) == 2

    def test_out_of_order_completion_holds_publication(self):
        """The serializability core: v2 completing first must NOT publish
        until v1 completes."""
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)  # v1
        vm.assign(blob, PAGE, PAGE)  # v2
        assert vm.complete(blob, 2) == 0  # still unpublished!
        assert vm.get_latest(blob) == 0
        assert vm.complete(blob, 1) == 2  # both publish together
        assert vm.get_latest(blob) == 2

    def test_long_out_of_order_chain(self):
        vm, blob = vm_with_blob()
        n = 10
        for i in range(n):
            vm.assign(blob, i * PAGE, PAGE)
        for v in range(n, 1, -1):  # complete 10, 9, ..., 2
            assert vm.complete(blob, v) == 0
        assert vm.complete(blob, 1) == n

    def test_unknown_completion_rejected(self):
        vm, blob = vm_with_blob()
        with pytest.raises(StaleWrite):
            vm.complete(blob, 1)

    def test_double_completion_rejected(self):
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)
        vm.complete(blob, 1)
        with pytest.raises(StaleWrite):
            vm.complete(blob, 1)

    def test_in_flight_tracking(self):
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)
        vm.assign(blob, PAGE, PAGE)
        assert vm.in_flight_versions(blob) == [1, 2]
        vm.complete(blob, 1)
        assert vm.in_flight_versions(blob) == [2]


class TestReadResolution:
    def test_latest_sentinel(self):
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)
        vm.complete(blob, 1)
        assert vm.resolve_read(blob, LATEST) == (1, 1)

    def test_explicit_published_version(self):
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)
        vm.complete(blob, 1)
        assert vm.resolve_read(blob, 1) == (1, 1)
        assert vm.resolve_read(blob, 0) == (0, 1)

    def test_unpublished_version_fails(self):
        """Paper §II: 'If v has not yet been published, then the read
        fails.'"""
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)  # assigned, not completed
        with pytest.raises(VersionNotPublished):
            vm.resolve_read(blob, 1)

    def test_returned_latest_dominates_requested(self):
        """Paper §II: vr >= v for every successful read."""
        vm, blob = vm_with_blob()
        for i in range(3):
            vm.assign(blob, i * PAGE, PAGE)
            vm.complete(blob, i + 1)
        effective, latest = vm.resolve_read(blob, 2)
        assert latest >= effective == 2


class TestRegionRoots:
    """``resolve_read(blob, version, regions)``: exact or absent."""

    REGION = (0, 64 * KB)  # covers pages 0..15

    def test_names_the_latest_writer_of_each_region(self):
        vm, blob = vm_with_blob()
        for offset in (0, 64 * KB, 0):
            vm.complete(blob, vm.assign(blob, offset, PAGE).version)
        regions = (self.REGION, (64 * KB, 64 * KB), (128 * KB, 64 * KB))
        assert vm.resolve_read(blob, LATEST, regions) == (3, 3, (3, 2, 0))
        assert vm.resolve_read(blob, 2, regions[1:]) == (2, 3, (2, 0))
        assert vm.resolve_read(blob, LATEST, ()) == (3, 3, ())

    def test_declines_only_behind_a_published_overwrite(self):
        vm, blob = vm_with_blob()
        for _ in range(2):
            vm.complete(blob, vm.assign(blob, 0, PAGE).version)
        # all-or-nothing: one region the history cannot vouch for is None
        assert vm.resolve_read(blob, 1, ((64 * KB, 64 * KB), self.REGION)) == (1, 2, None)
        assert vm.resolve_read(blob, 1, ((64 * KB, 64 * KB),)) == (1, 2, (0,))

    def test_latest_is_answered_through_in_flight_and_abandoned_writers(self):
        vm, blob = vm_with_blob()
        vm.complete(blob, vm.assign(blob, 0, PAGE).version)
        vm.assign(blob, 0, PAGE)          # v2, in flight
        vm.assign(blob, PAGE, PAGE)       # v3, in flight, same region
        assert vm.resolve_read(blob, LATEST, (self.REGION,)) == (1, 1, (1,))
        vm.complete(blob, 3)              # completed, not published: v2 holds it
        assert vm.resolve_read(blob, LATEST, (self.REGION,)) == (1, 1, (1,))
        vm.assign(blob, 0, PAGE)          # v4...
        vm.abandon(blob, 4)               # ...backs out
        assert vm.resolve_read(blob, LATEST, (self.REGION,)) == (1, 1, (1,))
        vm.complete(blob, 2)              # publishes v2 and v3
        assert vm.resolve_read(blob, LATEST, (self.REGION,)) == (3, 3, (3,))
        assert vm.resolve_read(blob, 2, ((0, PAGE), (2 * PAGE, PAGE))) == (2, 3, (2, 0))
        assert vm.resolve_read(blob, 2, ((PAGE, PAGE),)) == (2, 3, None)  # v3's page
        assert vm.resolve_read(blob, 1, (self.REGION,)) == (1, 3, None)

    def test_is_read_only(self):
        vm, blob = vm_with_blob()
        vm.complete(blob, vm.assign(blob, 0, PAGE).version)
        vm.assign(blob, 0, PAGE)
        before = (vm.patches(blob), vm.in_flight_versions(blob), vm.stat(blob))
        vm.resolve_read(blob, LATEST, (self.REGION,))
        assert (vm.patches(blob), vm.in_flight_versions(blob), vm.stat(blob)) == before
        assert vm.abandon(blob, 2) == 2  # the undo record is intact

    @pytest.mark.parametrize("regions", [
        [(0, PAGE)], "regions", 7,
        ((0, PAGE),) * 10,                # the blob has depth 8: at most 9
        ((0, 3 * PAGE),), ((PAGE, 2 * PAGE),), ((0, PAGE // 2),), ((0, 0),),
        ((TOTAL, PAGE),), ((0, 2 * TOTAL),), ((-PAGE, PAGE),), ((0, -PAGE),),
        ((0.0, PAGE),), ((True, PAGE),), ((0, PAGE, 1),), (Interval(0, PAGE),),
    ])
    def test_malformed_regions_are_value_errors(self, regions):
        vm, blob = vm_with_blob()
        vm.complete(blob, vm.assign(blob, 0, PAGE).version)
        with pytest.raises(ValueError):
            vm.resolve_read(blob, LATEST, regions)
        assert vm.stats()["roots_answered"] == vm.stats()["roots_declined"] == 0

    def test_unpublished_version_fails_before_anything_is_counted(self):
        vm, blob = vm_with_blob()
        with pytest.raises(VersionNotPublished):
            vm.resolve_read(blob, 1, (self.REGION,))
        assert vm.stats() == {"assigns": 0, "completions": 0, "resolves": 0,
                              "roots_answered": 0, "roots_declined": 0}


class TestAbandon:
    def test_abandon_most_recent(self):
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)
        vm.abandon(blob, 1)
        # the version slot is reusable and refs are clean
        t = vm.assign(blob, 0, PAGE)
        assert t.version == 1
        assert set(t.refs_as_dict().values()) == {0}

    def test_abandon_non_latest_rejected(self):
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)
        vm.assign(blob, PAGE, PAGE)
        with pytest.raises(StaleWrite):
            vm.abandon(blob, 1)

    def test_abandon_unknown_rejected(self):
        vm, blob = vm_with_blob()
        with pytest.raises(StaleWrite):
            vm.abandon(blob, 5)

    def test_liveness_after_abandon(self):
        """A crashed last writer no longer blocks publication."""
        vm, blob = vm_with_blob()
        vm.assign(blob, 0, PAGE)  # v1 will complete
        vm.assign(blob, PAGE, PAGE)  # v2 crashes
        vm.complete(blob, 1)
        vm.abandon(blob, 2)
        t3 = vm.assign(blob, 2 * PAGE, PAGE)
        assert t3.version == 2
        assert vm.complete(blob, 2) == 2


class TestDispatch:
    def test_rpc_surface(self):
        vm, blob = vm_with_blob()
        t = vm.handle("vm.assign", (blob, 0, PAGE))
        assert t.version == 1
        assert vm.handle("vm.complete", (blob, 1)) == 1
        assert vm.handle("vm.get_latest", (blob,)) == 1
        assert vm.handle("vm.stat", (blob,)) == (TOTAL, PAGE, 1)
        assert vm.handle("vm.resolve_read", (blob, LATEST)) == (1, 1)
        assert vm.handle("vm.resolve_read", (blob, 1, ((0, PAGE),))) == (1, 1, (1,))
        assert vm.handle("vm.stats", ()) == {
            "assigns": 1, "completions": 1, "resolves": 2,
            "roots_answered": 1, "roots_declined": 0,
        }
        assert vm.handle("vm.in_flight", (blob,)) == []

    def test_only_the_table_is_reachable(self):
        """Public methods that are not RPCs are unknown on the wire, and
        asking for one leaves the vm serving: nothing closed, nothing
        rolled back."""
        vm, blob = vm_with_blob()
        ticket = vm.handle("vm.assign", (blob, 0, PAGE))
        for method in ("vm.nope", "vm.close", "vm.rollback_unpublished"):
            with pytest.raises(ValueError, match="version manager: unknown method"):
                vm.handle(method, ())
        assert vm.handle("vm.in_flight", (blob,)) == [ticket.version]
        assert vm.handle("vm.complete", (blob, ticket.version)) == 1
