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

from repro.metadata.node import NodeKey, TreeNode
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
    """DFS-ordered shape rows for a write of ``patch``.

    Leaf row: ``(True, offset, size, page_index)``. Internal row:
    ``(False, offset, size, left_in, right_in, left_iv, right_iv)`` where
    ``*_in`` says whether that child intersects the patch.
    """
    cache_key = (geom.total_size, geom.pagesize, patch.offset, patch.size)
    skeleton = _skeleton_cache.get(cache_key)
    if skeleton is not None:
        return skeleton
    if len(_skeleton_cache) >= _SHAPE_CACHE_LIMIT:
        _skeleton_cache.clear()
    skeleton = []
    stack: list[Interval] = [geom.root]
    while stack:
        iv = stack.pop()
        if geom.is_leaf(iv):
            skeleton.append((True, iv.offset, iv.size, geom.page_index(iv)))
            continue
        left, right = geom.children(iv)
        left_in = left.intersects(patch)
        right_in = right.intersects(patch)
        skeleton.append((False, iv.offset, iv.size, left_in, right_in, left, right))
        # push right first so left is processed first (stable DFS order)
        if right_in:
            stack.append(right)
        if left_in:
            stack.append(left)
    _skeleton_cache[cache_key] = skeleton
    return skeleton


def plan_write_tree(
    geom: TreeGeometry,
    blob_id: str,
    version: int,
    patch: Interval,
    border_refs: Mapping[Interval, int],
    page_providers: Sequence[tuple[int, ...]],
    write_uid: str,
) -> list[TreeNode]:
    """Build all tree nodes the WRITE must publish, root first (DFS order).

    Args:
        geom: blob geometry.
        blob_id: blob identity.
        version: the version number assigned to this write.
        patch: the page-aligned byte range being written.
        border_refs: interval -> version for every child interval of the
            new subtree that does *not* intersect the patch (version 0
            means the interval was never written: zero-fill).
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
    for row in _write_skeleton(geom, patch):
        if row[0]:  # leaf
            _, offset, size, page = row
            append(
                TreeNode(
                    key=NodeKey(blob_id, version, offset, size),
                    providers=tuple(page_providers[page - first_page]),
                    write_uid=write_uid,
                )
            )
        else:
            _, offset, size, left_in, right_in, left, right = row
            append(
                TreeNode(
                    key=NodeKey(blob_id, version, offset, size),
                    left_version=version if left_in else _ref(border_refs, left, version),
                    right_version=version if right_in else _ref(border_refs, right, version),
                )
            )
    return nodes


def _ref(border_refs: Mapping[Interval, int], iv: Interval, version: int) -> int:
    try:
        ref = border_refs[iv]
    except KeyError:
        raise KeyError(
            f"missing border reference for interval {iv} (write version {version})"
        ) from None
    if not 0 <= ref < version:
        raise ValueError(
            f"border reference for {iv} is version {ref}, expected < {version}"
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
            _, _, _, left_in, right_in, left, right = row
            if not left_in:
                out.append(left)
            if not right_in:
                out.append(right)
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
