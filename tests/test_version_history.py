"""Patch history: the latest-writer index behind border precomputation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata.build import border_intervals
from repro.metadata.tree import TreeGeometry
from repro.util.intervals import Interval
from repro.util.sizes import KB
from repro.version.history import PatchHistory

GEOM = TreeGeometry(64 * KB, 4 * KB)  # 16 pages


def patch(first_page, npages):
    return Interval(first_page * 4 * KB, npages * 4 * KB)


class TestRecordAndLatest:
    def test_empty_history_is_version_zero(self):
        h = PatchHistory(GEOM)
        assert h.latest(GEOM.root) == 0
        assert h.latest(Interval(0, 4 * KB)) == 0

    def test_record_stamps_intersecting_intervals(self):
        h = PatchHistory(GEOM)
        h.record(1, patch(0, 2))
        assert h.latest(GEOM.root) == 1
        assert h.latest(Interval(0, 4 * KB)) == 1
        assert h.latest(Interval(0, 8 * KB)) == 1
        # untouched sibling stays at zero
        assert h.latest(Interval(8 * KB, 8 * KB)) == 0

    def test_later_version_overwrites(self):
        h = PatchHistory(GEOM)
        h.record(1, patch(0, 4))
        h.record(2, patch(0, 1))
        assert h.latest(Interval(0, 4 * KB)) == 2
        assert h.latest(Interval(4 * KB, 4 * KB)) == 1  # untouched by v2

    def test_versions_must_increase(self):
        h = PatchHistory(GEOM)
        h.record(2, patch(0, 1))
        with pytest.raises(ValueError):
            h.record(2, patch(0, 1))
        with pytest.raises(ValueError):
            h.record(1, patch(0, 1))

    def test_versions_intersecting(self):
        h = PatchHistory(GEOM)
        h.record(1, patch(0, 2))
        h.record(2, patch(4, 2))
        h.record(3, patch(1, 1))
        assert h.versions_intersecting(Interval(0, 8 * KB)) == [1, 3]


class TestBorderRefs:
    def test_refs_before_any_write_are_zero(self):
        h = PatchHistory(GEOM)
        refs = h.border_refs(patch(0, 1))
        assert set(refs.values()) == {0}
        assert set(refs) == set(border_intervals(GEOM, patch(0, 1)))

    def test_refs_point_to_latest_writer(self):
        h = PatchHistory(GEOM)
        h.record(1, patch(0, 16))  # full write
        h.record(2, patch(0, 1))
        refs = h.border_refs(patch(1, 1))
        # sibling page 0 was last touched by v2; the rest by v1
        assert refs[Interval(0, 4 * KB)] == 2
        assert refs[Interval(8 * KB, 8 * KB)] == 1
        assert refs[Interval(32 * KB, 32 * KB)] == 1

    def test_refs_see_in_flight_versions(self):
        """The write/write concurrency property: refs may point at a
        version that is assigned but not yet completed."""
        h = PatchHistory(GEOM)
        h.record(1, patch(0, 1))  # concurrent writer, still unpublished
        refs = h.border_refs(patch(1, 1))
        assert refs[Interval(0, 4 * KB)] == 1

    def test_refs_never_reference_future(self):
        h = PatchHistory(GEOM)
        h.record(1, patch(0, 16))
        refs = h.border_refs(patch(3, 2))
        assert all(v <= 1 for v in refs.values())


class TestRollback:
    def test_rollback_restores_previous_state(self):
        h = PatchHistory(GEOM)
        h.record(1, patch(0, 4))
        before = {iv: h.latest(iv) for iv in GEOM.visit_intervals(patch(0, 8))}
        h.record(2, patch(0, 8))
        h.rollback_last(2)
        after = {iv: h.latest(iv) for iv in GEOM.visit_intervals(patch(0, 8))}
        assert before == after
        assert len(h.patches) == 1

    def test_rollback_only_most_recent(self):
        h = PatchHistory(GEOM)
        h.record(1, patch(0, 1))
        h.record(2, patch(2, 1))
        with pytest.raises(ValueError):
            h.rollback_last(1)

    def test_forget_undo_blocks_rollback(self):
        h = PatchHistory(GEOM)
        h.record(1, patch(0, 1))
        h.forget_undo(1)
        with pytest.raises(KeyError):
            h.rollback_last(1)


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=16),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_latest_matches_bruteforce(patches):
    """latest(iv) always equals the brute-force max over recorded patches."""
    h = PatchHistory(GEOM)
    recorded = []
    for v, (first, npages) in enumerate(patches, start=1):
        npages = min(npages, 16 - first)
        if npages == 0:
            npages = 1
            first = 0
        p = patch(first, npages)
        h.record(v, p)
        recorded.append((v, p))
    for iv in GEOM.visit_intervals(GEOM.root):
        expected = max(
            (v for v, p in recorded if p.intersects(iv)), default=0
        )
        assert h.latest(iv) == expected


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=16),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=0, max_value=12),
)
def test_label_at_is_the_bruteforce_maximum_or_absent(patches, published):
    """label_at(iv, v) is max{w <= v : patch(w) meets iv}, for every v at or
    after the last published version; before it, that or ``None``."""
    h = PatchHistory(GEOM)
    recorded = []
    for v, (first, npages) in enumerate(patches, start=1):
        p = patch(first, max(1, min(npages, 16 - first)))
        h.record(v, p)
        recorded.append((v, p))
    published = min(published, len(recorded))
    for v in range(1, published + 1):
        h.forget_undo(v)  # what publishing a version does
    for snapshot in range(len(recorded) + 1):
        for iv in GEOM.visit_intervals(GEOM.root):
            expected = max(
                (v for v, p in recorded if v <= snapshot and p.intersects(iv)),
                default=0,
            )
            label = h.label_at(iv, snapshot)
            if snapshot >= published:
                assert label == expected
            else:
                assert label in (expected, None)
