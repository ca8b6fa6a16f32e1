"""The version manager's arithmetic patch history against the geometric
references it replaced: the stamps are :meth:`TreeGeometry.visit_intervals`,
the border keys are the client's weaving keys
(:func:`repro.metadata.build.border_intervals`), and a ticket's refs are
the sorted latest-writer labels of those keys."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata.build import border_intervals
from repro.metadata.tree import TreeGeometry
from repro.util.intervals import Interval
from repro.version.history import PatchHistory, _borders, _stamps


@st.composite
def geometry(draw) -> TreeGeometry:
    pagesize = 1 << draw(st.integers(min_value=0, max_value=20))
    return TreeGeometry(pagesize << draw(st.integers(min_value=0, max_value=9)), pagesize)


@st.composite
def aligned_patch(draw, geom: TreeGeometry) -> Interval:
    first = draw(st.integers(min_value=0, max_value=geom.page_count - 1))
    npages = draw(st.integers(min_value=1, max_value=geom.page_count - first))
    return Interval(first * geom.pagesize, npages * geom.pagesize)


@st.composite
def geometry_and_patch(draw) -> tuple[TreeGeometry, Interval]:
    geom = draw(geometry())
    return geom, draw(aligned_patch(geom))


def _pairs(intervals) -> list[tuple[int, int]]:
    return [(iv.offset, iv.size) for iv in intervals]


@settings(max_examples=300, deadline=None)
@given(geometry_and_patch())
def test_stamps_are_the_visit_intervals(case):
    geom, patch = case
    assert _stamps(geom.total_size, geom.pagesize, patch.offset, patch.size) == _pairs(
        geom.visit_intervals(patch)
    )


@settings(max_examples=300, deadline=None)
@given(geometry_and_patch())
def test_borders_are_the_weaving_keys_in_ticket_order(case):
    geom, patch = case
    keys = _borders(geom.total_size, geom.pagesize, patch.offset, patch.size)
    assert keys == sorted(_pairs(border_intervals(geom, patch)))
    assert len(keys) <= 2 * geom.depth


@st.composite
def geometry_and_writes(draw) -> tuple[TreeGeometry, list[Interval]]:
    geom = draw(geometry())
    writes = draw(st.lists(aligned_patch(geom), min_size=1, max_size=10))
    return geom, writes


@settings(max_examples=150, deadline=None)
@given(geometry_and_writes())
def test_ticket_refs_are_the_sorted_labels_of_the_weaving_keys(case):
    """Each write's refs, taken before it is recorded, equal what the
    Interval-keyed history put on the ticket: ``sorted(((offset, size),
    latest(iv)) for iv in border_intervals)``, latest by brute force."""
    geom, writes = case
    history = PatchHistory(geom)
    for version, patch in enumerate(writes, start=1):
        expected = tuple(sorted(
            ((iv.offset, iv.size),
             max((v for v, p in enumerate(writes[: version - 1], start=1)
                  if p.intersects(iv)), default=0))
            for iv in border_intervals(geom, patch)
        ))
        assert history.ticket_refs(patch.offset, patch.size) == expected
        history.record(version, patch)
    assert history.patches == [
        (v, p.offset, p.size) for v, p in enumerate(writes, start=1)
    ]
