"""Snapshot structural diffing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.errors import VersionNotPublished
from repro.util.intervals import Interval
from repro.util.sizes import KB
from repro.version.diff import changed_ranges, merge_intervals
from repro.version.manager import LATEST
from tests.conftest import SMALL_PAGE, SMALL_TOTAL, pages


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_kept(self):
        parts = [Interval(0, 4), Interval(8, 4)]
        assert merge_intervals(parts) == parts

    def test_adjacent_coalesced(self):
        assert merge_intervals([Interval(0, 4), Interval(4, 4)]) == [Interval(0, 8)]

    def test_overlap_and_containment(self):
        got = merge_intervals([Interval(0, 10), Interval(5, 3), Interval(8, 6)])
        assert got == [Interval(0, 14)]

    def test_unsorted_input(self):
        got = merge_intervals([Interval(8, 4), Interval(0, 4), Interval(4, 4)])
        assert got == [Interval(0, 12)]


class TestChangedRanges:
    def test_no_change_same_version(self, client, blob):
        client.write(blob, pages(2), 0)
        assert changed_ranges(client, blob, 1, 1) == []

    def test_single_patch(self, client, blob):
        client.write(blob, pages(2, b"a"), 0)  # v1
        client.write(blob, pages(1, b"b"), 4 * SMALL_PAGE)  # v2
        got = changed_ranges(client, blob, 1, 2)
        assert got == [Interval(4 * SMALL_PAGE, SMALL_PAGE)]

    def test_from_zero_version(self, client, blob):
        client.write(blob, pages(3, b"a"), SMALL_PAGE)
        got = changed_ranges(client, blob, 0, 1)
        assert got == [Interval(SMALL_PAGE, 3 * SMALL_PAGE)]

    def test_multi_version_union(self, client, blob):
        client.write(blob, pages(1, b"a"), 0)  # v1
        client.write(blob, pages(1, b"b"), 0)  # v2 (same page)
        client.write(blob, pages(1, b"c"), 8 * SMALL_PAGE)  # v3
        got = changed_ranges(client, blob, 1, 3)
        assert got == [
            Interval(0, SMALL_PAGE),
            Interval(8 * SMALL_PAGE, SMALL_PAGE),
        ]

    def test_adjacent_patches_merge(self, client, blob):
        client.write(blob, pages(1, b"a"), 0)  # v1
        client.write(blob, pages(1, b"b"), SMALL_PAGE)  # v2
        client.write(blob, pages(1, b"c"), 2 * SMALL_PAGE)  # v3
        got = changed_ranges(client, blob, 1, 3)
        assert got == [Interval(SMALL_PAGE, 2 * SMALL_PAGE)]

    def test_symmetric_arguments(self, client, blob):
        client.write(blob, pages(1, b"a"), 0)
        client.write(blob, pages(2, b"b"), 4 * SMALL_PAGE)
        assert changed_ranges(client, blob, 2, 1) == changed_ranges(
            client, blob, 1, 2
        )

    def test_unpublished_version_rejected(self, client, blob):
        client.write(blob, pages(1), 0)
        with pytest.raises(VersionNotPublished):
            changed_ranges(client, blob, 1, 9)

    def test_latest_is_the_newest_version_on_either_side(self, client, blob):
        client.write(blob, pages(1, b"a"), 0)
        client.write(blob, pages(2, b"b"), 4 * SMALL_PAGE)
        expected = [Interval(4 * SMALL_PAGE, 2 * SMALL_PAGE)]
        assert changed_ranges(client, blob, 1, LATEST) == expected
        assert changed_ranges(client, blob, LATEST, 1) == expected
        assert changed_ranges(client, blob, LATEST, LATEST) == []
        for v_old, v_new in ((9, LATEST), (LATEST, 9)):
            with pytest.raises(VersionNotPublished):
                changed_ranges(client, blob, v_old, v_new)

    def test_rewrite_of_same_range_reported(self, client, blob):
        """Structural semantics: rewriting identical bytes still reports."""
        client.write(blob, pages(1, b"s"), 0)
        client.write(blob, pages(1, b"s"), 0)
        assert changed_ranges(client, blob, 1, 2) == [Interval(0, SMALL_PAGE)]

    def test_diff_prunes_shared_subtrees(self, dep, blob):
        """The efficiency claim: diffing two snapshots that differ in one
        page must not fetch the whole tree."""
        client = dep.client("differ", )
        client.cache = None  # count provider gets directly
        client.write(blob, pages(SMALL_TOTAL // SMALL_PAGE, b"f"), 0)  # full
        gets_before = sum(m.gets for m in dep.meta.values())
        client.write(blob, pages(1, b"g"), 0)
        changed_ranges(client, blob, 1, 2)
        gets_used = sum(m.gets for m in dep.meta.values()) - gets_before
        # both root-to-leaf paths (depth+1 each), nothing else
        geom = client.open(blob)
        assert gets_used <= 2 * (geom.depth + 1)


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=2,
        max_size=8,
    ),
    data=st.data(),
)
def test_diff_matches_patch_history(writes, data):
    """changed_ranges(v1, v2) == union of patches in (v1, v2], exactly."""
    TOTAL, PAGE = 256 * KB, 4 * KB
    dep = build_inproc(DeploymentSpec(n_data=2, n_meta=2))
    client = dep.client()
    blob = client.alloc(TOTAL, PAGE)
    patches = []
    for first, npages in writes:
        npages = min(npages, 64 - first)
        client.write(blob, b"x" * (npages * PAGE), first * PAGE)
        patches.append(Interval(first * PAGE, npages * PAGE))
    v2 = len(patches)
    v1 = data.draw(st.integers(min_value=0, max_value=v2), label="v1")
    got = changed_ranges(client, blob, v1, v2)
    expected = merge_intervals(list(patches[v1:v2]))
    assert got == expected
