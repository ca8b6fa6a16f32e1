"""Construction of a WRITE's metadata subtree ("weaving", paper §III.C).

A WRITE producing version ``v`` over patch ``P`` builds the smallest
(possibly incomplete) binary tree of the full height whose leaves are
exactly the pages of ``P``. Nodes whose two children both intersect ``P``
link to fresh version-``v`` children; *border nodes* have one child outside
``P`` and link it to the corresponding node of an **earlier** tree — the
version supplied in ``border_refs``, which the version manager precomputes
from the patch history (paper §IV.C) so the writer needs no communication
with, and no waiting on, concurrent writers.

The functions here are pure: given geometry, patch, refs and page
placements they return the exact node set — which makes the weaving logic
property-testable in isolation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.metadata.node import TreeNode, _restore_node
from repro.metadata.tree import TreeGeometry
from repro.util.intervals import Interval

# The subtree *shape* a write must build depends only on (geometry, patch)
# — not on version, providers or refs — and benchmark workloads revisit the
# same patch slots across iterations and clients. The write skeleton is
# therefore memoized on those four ints. Entries can be large
# (proportional to the write-tree size), so on overflow the cache is
# wholesale-cleared rather than growing forever in long-lived processes
# writing many distinct patch shapes.
_SHAPE_CACHE_LIMIT = 4096
_skeleton_cache: dict[tuple[int, int, int, int], list[tuple]] = {}


def _write_skeleton(geom: TreeGeometry, patch: Interval) -> list[tuple]:
    """DFS-ordered shape rows for a write of ``patch``, on plain ints.

    Leaf row: ``(True, offset, size, page_index)``. Internal row:
    ``(False, offset, size, left, right)`` where a child that intersects
    the patch is ``None`` and one outside it is its ``(offset, size)``,
    the key its border reference is looked up by.
    """
    cache_key = (geom.total_size, geom.pagesize, patch.offset, patch.size)
    skeleton = _skeleton_cache.get(cache_key)
    if skeleton is not None:
        return skeleton
    if len(_skeleton_cache) >= _SHAPE_CACHE_LIMIT:
        _skeleton_cache.clear()
    skeleton = []
    pagesize = geom.pagesize
    patch_lo, patch_end = patch.offset, patch.offset + patch.size
    stack = [(0, geom.total_size)]
    while stack:
        lo, span = stack.pop()
        if span == pagesize:
            skeleton.append((True, lo, span, lo // pagesize))
            continue
        half = span >> 1
        mid = lo + half
        left_in = lo < patch_end and patch_lo < mid
        right_in = mid < patch_end and patch_lo < mid + half
        skeleton.append((False, lo, span, None if left_in else (lo, half),
                         None if right_in else (mid, half)))
        # push right first so left is processed first (stable DFS order)
        if right_in:
            stack.append((mid, half))
        if left_in:
            stack.append((lo, half))
    _skeleton_cache[cache_key] = skeleton
    return skeleton


def plan_write_tree(
    geom: TreeGeometry,
    blob_id: str,
    version: int,
    patch: Interval,
    border_refs: Mapping[tuple[int, int], int],
    page_providers: Sequence[tuple[int, ...]],
    write_uid: str,
) -> list[TreeNode]:
    """Build all tree nodes the WRITE must publish, root first (DFS order).

    Args:
        geom: blob geometry.
        blob_id: blob identity.
        version: the version number assigned to this write.
        patch: the page-aligned byte range being written.
        border_refs: ``(offset, size)`` -> version for every child interval
            of the new subtree that does *not* intersect the patch (version
            0 means the interval was never written: zero-fill) — the form
            :meth:`~repro.version.manager.WriteTicket.refs_as_dict` returns.
        page_providers: provider group per patched page, in page order.
        write_uid: unique id of this write (page addressing).

    Returns:
        Fresh :class:`TreeNode` records for version ``version``.
    """
    patch = geom.check_aligned(patch.offset, patch.size)
    first_page = patch.offset // geom.pagesize
    npages = patch.size // geom.pagesize
    if len(page_providers) != npages:
        raise ValueError(
            f"patch covers {npages} pages but {len(page_providers)} provider "
            "groups were supplied"
        )

    nodes: list[TreeNode] = []
    append = nodes.append
    mint = _restore_node
    for row in _write_skeleton(geom, patch):
        if row[0]:  # leaf
            _, offset, size, page = row
            append(mint(blob_id, version, offset, size, None, None,
                        tuple(page_providers[page - first_page]), write_uid))
        else:
            _, offset, size, left, right = row
            append(mint(
                blob_id, version, offset, size,
                version if left is None else _ref(border_refs, left, version),
                version if right is None else _ref(border_refs, right, version),
                (), None,
            ))
    return nodes


def _ref(
    border_refs: Mapping[tuple[int, int], int], key: tuple[int, int], version: int
) -> int:
    try:
        ref = border_refs[key]
    except KeyError:
        raise KeyError(
            f"missing border reference for interval {Interval(*key)} "
            f"(write version {version})"
        ) from None
    if not 0 <= ref < version:
        raise ValueError(
            f"border reference for {Interval(*key)} is version {ref}, "
            f"expected < {version}"
        )
    return ref


def border_intervals(geom: TreeGeometry, patch: Interval) -> list[Interval]:
    """Child intervals of the write subtree that lie outside the patch.

    This is exactly the key set ``plan_write_tree`` expects in
    ``border_refs``; the version manager computes the same set by
    arithmetic when precomputing references (paper §IV.C), and tests
    assert the two agree.
    """
    patch = geom.check_aligned(patch.offset, patch.size)
    out: list[Interval] = []
    for row in _write_skeleton(geom, patch):
        if not row[0]:
            for border in row[3:]:
                if border is not None:
                    out.append(Interval(*border))
    return out


def count_write_nodes(geom: TreeGeometry, patch: Interval) -> int:
    """Closed-form size of the subtree a WRITE of ``patch`` must build."""
    total = 0
    for depth in range(geom.depth + 1):
        size = geom.total_size >> depth
        first = patch.offset // size
        last = (patch.end - 1) // size
        total += last - first + 1
    return total
