"""Snapshot differencing: which byte ranges changed between two versions?

A direct payoff of version-labeled child references (paper §III.C): two
snapshots' trees share every subtree that no intervening patch touched, and
the child reference *is* the version label — so comparing references
prunes identical subtrees without fetching them. The walk costs
O(changed metadata), not O(blob size).

Semantics: a range is reported iff some patch in ``(v_old, v_new]``
intersects it — i.e. the resolved writer version of the range differs
between the snapshots. (A write of identical bytes still reports: this is
structural diff, the one applications want for incremental reprocessing.)

``diff_protocol`` is sans-io like every other protocol; ``changed_ranges``
is the blocking client helper.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import VersionNotPublished
from repro.metadata.cache import MetadataCache
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.router import StaticRouter, fetch_nodes
from repro.metadata.tree import TreeGeometry
from repro.net.sansio import Batch, Call, Op
from repro.util.intervals import Interval

Proto = Generator[Op, Any, Any]


def diff_protocol(
    blob_id: str,
    geom: TreeGeometry,
    v_old: int,
    v_new: int,
    router: StaticRouter,
    cache: MetadataCache | None = None,
) -> Proto:
    """Sans-io diff; returns a merged list of changed :class:`Interval`.

    Both versions must be published. ``v_old`` may exceed ``v_new``; the
    result is symmetric, so the arguments are normalized.
    """
    if v_old > v_new:
        v_old, v_new = v_new, v_old
    (resolved,) = yield Batch([Call("vm", "vm.resolve_read", (blob_id, v_new))])
    effective, _latest = resolved
    if effective != v_new:  # defensive; resolve_read raises on unpublished
        raise VersionNotPublished(blob_id, v_new, effective)
    if v_old == v_new:
        return []

    changed: list[Interval] = []
    # frontier entries: (interval, old_ref, new_ref) with old_ref != new_ref
    frontier: list[tuple[Interval, int, int]] = []
    root = geom.root
    # Resolved root references: the root node of snapshot v exists for
    # every v >= 1; v == 0 is the implicit zero tree (reference 0).
    frontier.append((root, v_old, v_new))

    while frontier:
        # fetch the internal nodes we must expand (both sides, deduped)
        need: dict[NodeKey, TreeNode | None] = {}
        for iv, old_ref, new_ref in frontier:
            if geom.is_leaf(iv):
                continue
            for ref in (old_ref, new_ref):
                if ref > 0:
                    need.setdefault(NodeKey(blob_id, ref, iv.offset, iv.size))
        keys = list(need)
        fetched: dict[NodeKey, TreeNode] = {}
        to_fetch: list[NodeKey] = []
        for key in keys:
            node = cache.get(key) if cache is not None else None
            if node is not None:
                fetched[key] = node
            else:
                to_fetch.append(key)
        # node by node (no ``within``): the walk prunes by comparing child
        # references, which a provider's interval descent cannot do
        for node in (yield from fetch_nodes(router, to_fetch)):
            fetched[node.key] = node
            if cache is not None:
                cache.put(node)

        next_frontier: list[tuple[Interval, int, int]] = []
        for iv, old_ref, new_ref in frontier:
            assert old_ref != new_ref
            if geom.is_leaf(iv):
                changed.append(iv)
                continue
            old_children = _child_refs(fetched, blob_id, iv, old_ref)
            new_children = _child_refs(fetched, blob_id, iv, new_ref)
            for (child_iv, a), (_, b) in zip(old_children, new_children):
                if a != b:
                    next_frontier.append((child_iv, a, b))
        frontier = next_frontier

    return merge_intervals(changed)


def _child_refs(
    fetched: dict[NodeKey, TreeNode],
    blob_id: str,
    iv: Interval,
    ref: int,
) -> list[tuple[Interval, int]]:
    """Child (interval, version-reference) pairs for one side of the walk.

    Reference 0 is the implicit zero tree: both children are reference 0.
    """
    left, right = iv.left_half(), iv.right_half()
    if ref == 0:
        return [(left, 0), (right, 0)]
    node = fetched[NodeKey(blob_id, ref, iv.offset, iv.size)]
    assert node.left_version is not None and node.right_version is not None
    return [(left, node.left_version), (right, node.right_version)]


def merge_intervals(parts: list[Interval]) -> list[Interval]:
    """Coalesce adjacent/overlapping intervals into maximal runs."""
    if not parts:
        return []
    parts = sorted(parts, key=lambda iv: iv.offset)
    out = [parts[0]]
    for iv in parts[1:]:
        last = out[-1]
        if iv.offset <= last.end:
            if iv.end > last.end:
                out[-1] = Interval(last.offset, iv.end - last.offset)
        else:
            out.append(iv)
    return out


def changed_ranges(
    client,
    blob_id: str,
    v_old: int,
    v_new: int,
) -> list[Interval]:
    """Blocking helper on a :class:`~repro.core.client.BlobClient`."""
    geom = client.open(blob_id)
    return client.driver.run(
        diff_protocol(
            blob_id, geom, v_old, v_new, client.router, cache=client.cache
        )
    )
